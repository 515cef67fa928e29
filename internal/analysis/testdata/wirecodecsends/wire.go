package wirefix

//mnmwiregen:types RegisteredMsg
